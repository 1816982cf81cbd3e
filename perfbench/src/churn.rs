//! `churn_100k`: the write-heavy workload. 100 000 peers start from the
//! ideal scenario-1 clustering; each of 3 periods applies 50 leaves and
//! 50 joins, repairs selfishly (6-round budget) and probes the query
//! traffic under exact routing.

use rand::Rng;
use recluster_core::{
    scost_normalized, DecisionSource, EmptyTargetPolicy, ProtocolConfig, ProtocolEngine,
    SelfishStrategy,
};
use recluster_corpus::{QueryBias, QuerySampler, WorkloadBuilder};
use recluster_overlay::churn::{random_leave, ChurnDelta, ChurnEvent};
use recluster_overlay::SimNetwork;
use recluster_sim::churn::{churn_100k_config, run_churn, ChurnConfig, ChurnPeriod};
use recluster_sim::report::f3;
use recluster_sim::scenario::{ideal_scenario1_system, ExperimentConfig, TestBed};
use recluster_sim::{measure_query_traffic, StrategyKind};
use recluster_types::{derive_seed, seeded_rng, Workload};

use crate::measure::{
    golden_lines, golden_mismatch, median, ratio, repeat_for, timed, BitDigest, Checks, Outcome,
};
use crate::probe::SetupProbe;
use crate::{GOLDEN_SEED, PAPER_IDEAL_SCOST, SCOST_TOLERANCE};

/// Share of a traced replay's wall clock its layer rows must cover, so
/// that no untimed work hides between the timed calls.
const MIN_LAYER_SHARE: f64 = 0.95;

/// Per-layer times and counters of one traced replay.
#[derive(Debug, Default)]
struct Layers {
    build_s: f64,
    churn_s: f64,
    churn_events: u64,
    flush_s: f64,
    repair_s: f64,
    round_s: Vec<f64>,
    recomputed: u64,
    memoized: u64,
    requests: u64,
    granted: u64,
    walk_s: f64,
    query_messages: u64,
    wall_s: f64,
}

impl Layers {
    fn sum_s(&self) -> f64 {
        self.build_s + self.churn_s + self.flush_s + self.repair_s + self.walk_s
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (cfg, churn) = churn_100k_config(seed);
    assert!(
        churn.maintenance == Some(StrategyKind::Selfish)
            && churn.decisions == DecisionSource::Oracle,
        "the traced replay covers selfish oracle repair only"
    );
    let mut setup_s = Vec::new();
    let mut run_s = Vec::new();
    let mut outputs: Vec<Vec<ChurnPeriod>> = Vec::new();
    let mut traced: Vec<(Vec<ChurnPeriod>, Layers)> = Vec::new();
    let mut probe = SetupProbe::default();

    repeat_for(seconds, || {
        let (testbed, t) = timed(|| ideal_scenario1_system(&cfg));
        setup_s.push(t);
        if trace {
            probe.measure(&cfg, &testbed);
        }
        drop(testbed);
        let (rows, t) = timed(|| run_churn(&cfg, &churn));
        run_s.push(t);
        outputs.push(rows);
        if trace {
            traced.push(replay(&cfg, &churn));
        }
    });

    let mut out = Outcome::default();
    check(&mut out.checks, seed, &cfg, &churn, &outputs, &traced);

    let periods = &outputs[0];
    let mean =
        |f: fn(&ChurnPeriod) -> f64| periods.iter().map(f).sum::<f64>() / periods.len() as f64;
    out.e2e("setup_s", median(&setup_s), "s");
    out.e2e("run_s", median(&run_s), "s");
    out.e2e("scost", mean(|p| p.scost_after_repair), "cost");
    out.extra("forwards_per_query", mean(|p| p.forwards_per_query), "msgs");
    out.note(format!(
        "churn_100k seed={seed}: {} repetitions, run_s samples {run_s:?}",
        run_s.len()
    ));

    if trace {
        let layers: Vec<&Layers> = traced.iter().map(|(_, l)| l).collect();
        let med = |f: fn(&Layers) -> f64| median(&layers.iter().map(|l| f(l)).collect::<Vec<_>>());
        let rounds: Vec<f64> = layers.iter().flat_map(|l| l.round_s.clone()).collect();
        let first = layers[0];
        out.layer("scenario.build_s", med(|l| l.build_s), "s");
        probe.report(&mut out);
        out.layer("system.churn_s", med(|l| l.churn_s), "s");
        out.layer("system.churn_events", first.churn_events as f64, "count");
        out.layer("costcache.flush_s", med(|l| l.flush_s), "s");
        out.layer("protocol.repair_s", med(|l| l.repair_s), "s");
        out.layer("protocol.round_s.median", median(&rounds), "s");
        out.layer(
            "protocol.round_s.max",
            rounds.iter().copied().fold(0.0, f64::max),
            "s",
        );
        out.layer("protocol.rounds", first.round_s.len() as f64, "count");
        out.layer(
            "protocol.proposals_recomputed",
            first.recomputed as f64,
            "count",
        );
        out.layer(
            "protocol.proposals_memoized",
            first.memoized as f64,
            "count",
        );
        out.layer(
            "protocol.memo_hit_ratio",
            ratio(
                first.memoized as f64,
                (first.recomputed + first.memoized) as f64,
            ),
            "ratio",
        );
        out.layer("protocol.requests", first.requests as f64, "count");
        out.layer("protocol.granted", first.granted as f64, "count");
        out.layer("tracker.walk_s", med(|l| l.walk_s), "s");
        out.layer(
            "tracker.query_messages",
            first.query_messages as f64,
            "count",
        );
        let walls: Vec<f64> = layers.iter().map(|l| l.wall_s).collect();
        let sums: Vec<f64> = layers.iter().map(|l| l.sum_s()).collect();
        out.trace_summary(&walls, &sums, median(&run_s));
        for (rep, l) in layers.iter().enumerate() {
            let share = ratio(l.sum_s(), l.wall_s);
            let problems = if share < MIN_LAYER_SHARE {
                vec![format!("layer rows cover {share:.4} of the wall clock, want at least {MIN_LAYER_SHARE}")]
            } else {
                Vec::new()
            };
            out.checks
                .op(|| format!("traced replay #{rep} layer coverage"), problems);
        }
    }
    out
}

/// `run_churn` for the oracle selfish configuration, rebuilt from the
/// public calls it makes, in the same order, each timed: the testbed
/// build, every period's churn batch, the post-batch cost flush, each
/// repair round on a fresh engine (as `run_protocol` does) and the
/// routed traffic probe.
fn replay(cfg: &ExperimentConfig, churn: &ChurnConfig) -> (Vec<ChurnPeriod>, Layers) {
    let wall = std::time::Instant::now();
    let (mut testbed, build_s) = timed(|| ideal_scenario1_system(cfg));
    let mut layers = Layers {
        build_s,
        ..Layers::default()
    };
    let mut rng = seeded_rng(derive_seed(cfg.seed, 0xC4A9));
    let mut net = SimNetwork::new();
    let demand_per_peer = (cfg.total_queries / cfg.n_peers as u64).max(1);
    let mut samplers: Vec<Option<QuerySampler>> = vec![None; testbed.holdout.len()];
    let protocol = ProtocolConfig::builder()
        .epsilon(1e-3)
        .max_rounds(churn.max_rounds)
        .empty_targets(EmptyTargetPolicy::Always)
        .use_locks(true)
        .build();
    let mut rows = Vec::with_capacity(churn.periods);
    for period in 0..churn.periods {
        let (events, t) = timed(|| {
            churn_batch(
                &mut testbed,
                churn,
                demand_per_peer,
                &mut samplers,
                &mut rng,
                &mut net,
            )
        });
        layers.churn_s += t;
        layers.churn_events += events;

        let (scost_after_churn, t) = timed(|| scost_normalized(&testbed.system));
        layers.flush_s += t;

        let mut engine = ProtocolEngine::new(SelfishStrategy, protocol);
        let mut moves = 0;
        for round in 0..protocol.max_rounds {
            let (outcome, t) = timed(|| engine.run_round(&mut testbed.system, &mut net, round));
            layers.repair_s += t;
            layers.round_s.push(t);
            layers.recomputed += outcome.proposals_recomputed as u64;
            layers.memoized += outcome.proposals_memoized as u64;
            layers.requests += outcome.requests.len() as u64;
            layers.granted += outcome.granted.len() as u64;
            moves += outcome.granted.len();
            if outcome.requests.is_empty() {
                break;
            }
        }

        let ((query_net, routing), t) =
            timed(|| measure_query_traffic(&testbed.system, churn.routing));
        layers.walk_s += t;
        layers.query_messages += query_net.total_messages();

        let (scost_after_repair, t) = timed(|| scost_normalized(&testbed.system));
        layers.flush_s += t;

        rows.push(ChurnPeriod {
            period,
            scost_after_churn,
            scost_after_repair,
            peers: testbed.system.overlay().n_peers(),
            moves,
            query_messages: query_net.total_messages(),
            forwards_per_query: routing.forwards_per_query(),
            false_negative_rate: routing.false_negative_rate(),
        });
    }
    // `run_churn`'s time includes dropping its testbed.
    drop(testbed);
    layers.wall_s = wall.elapsed().as_secs_f64();
    (rows, layers)
}

/// One period's churn batch through `System::apply_churn_event` and
/// `set_workload`: departures of random live peers, then arrivals
/// carrying five hold-out articles of a random category, dropped into a
/// random non-empty cluster. Returns the events applied.
fn churn_batch(
    testbed: &mut TestBed,
    churn: &ChurnConfig,
    demand_per_peer: u64,
    samplers: &mut [Option<QuerySampler>],
    rng: &mut rand::rngs::StdRng,
    net: &mut SimNetwork,
) -> u64 {
    let mut events = 0;
    for _ in 0..churn.leaves_per_period {
        if let Some(event) = random_leave(testbed.system.overlay(), rng) {
            if let Some(ChurnDelta::Left { peer, .. }) =
                testbed.system.apply_churn_event(net, event)
            {
                testbed.system.set_workload(peer, Workload::new());
                events += 1;
            }
        }
    }
    let n_categories = testbed.holdout.len();
    for _ in 0..churn.joins_per_period {
        let cat = rng.gen_range(0..n_categories);
        let pool = &testbed.holdout[cat];
        let docs: Vec<_> = (0..5)
            .map(|_| pool[rng.gen_range(0..pool.len())].clone())
            .collect();
        let target = {
            let non_empty = testbed.system.overlay().non_empty_ids();
            non_empty[rng.gen_range(0..non_empty.len())]
        };
        let delta = testbed
            .system
            .apply_churn_event(
                net,
                ChurnEvent::Join {
                    cluster: target,
                    docs,
                },
            )
            .expect("join events always apply");
        let mut wrng = seeded_rng(derive_seed(rng.gen(), 0x10));
        let builder = WorkloadBuilder::new(QueryBias::Uniform)
            .with_doc_limit(testbed.distributable_per_category);
        let sampler = samplers[cat].get_or_insert_with(|| builder.sampler(&testbed.corpus, cat));
        let workload = builder.build_with(sampler, demand_per_peer, &mut wrng);
        testbed.system.set_workload(delta.peer(), workload);
        testbed.peer_category.push(cat);
        testbed.query_category.push(Some(cat));
        events += 1;
    }
    events
}

/// The golden snapshot's rendering of the period rows.
fn render(cfg: &ExperimentConfig, churn: &ChurnConfig, rows: &[ChurnPeriod]) -> Vec<String> {
    let mut lines = vec![format!(
        "churn_100k peers={} periods={} leaves={} joins={} routing={} seed={}",
        cfg.n_peers,
        churn.periods,
        churn.leaves_per_period,
        churn.joins_per_period,
        churn.routing,
        cfg.seed
    )];
    let mut digest = BitDigest::new();
    for r in rows {
        digest.push(r.scost_after_churn);
        digest.push(r.scost_after_repair);
        digest.push(r.forwards_per_query);
        digest.push(r.false_negative_rate);
        lines.push(format!(
            "period={}|peers={}|churned={}|repaired={}|moves={}|msgs={}|fwd/q={}|fn={}",
            r.period,
            r.peers,
            f3(r.scost_after_churn),
            f3(r.scost_after_repair),
            r.moves,
            r.query_messages,
            f3(r.forwards_per_query),
            f3(r.false_negative_rate),
        ));
    }
    lines.push(digest.line());
    lines
}

/// Every bit of a period row, for exact comparison.
fn bits(r: &ChurnPeriod) -> [u64; 8] {
    [
        r.period as u64,
        r.scost_after_churn.to_bits(),
        r.scost_after_repair.to_bits(),
        r.peers as u64,
        r.moves as u64,
        r.query_messages,
        r.forwards_per_query.to_bits(),
        r.false_negative_rate.to_bits(),
    ]
}

/// Checks every period of every repetition: repaired cost near the
/// paper ideal, bit-identical to the first repetition, bit-identical
/// between the traced replay and `run_churn`, and — at the golden seed —
/// equal to the committed snapshot.
fn check(
    checks: &mut Checks,
    seed: u64,
    cfg: &ExperimentConfig,
    churn: &ChurnConfig,
    outputs: &[Vec<ChurnPeriod>],
    traced: &[(Vec<ChurnPeriod>, Layers)],
) {
    let reference = &outputs[0];
    let golden = (seed == GOLDEN_SEED).then(|| {
        let rendered = render(cfg, churn, reference);
        golden_lines("churn_100k.txt").map(|golden| {
            let digest =
                golden_mismatch(&golden, rendered.len() - 1, &rendered[rendered.len() - 1]);
            (golden, rendered, digest)
        })
    });
    let runs = outputs
        .iter()
        .map(|rows| ("run_churn", rows))
        .chain(traced.iter().map(|(rows, _)| ("traced replay", rows)));
    for (rep, (source, rows)) in runs.enumerate() {
        for period in 0..churn.periods {
            let mut problems = Vec::new();
            match rows.get(period) {
                None => problems.push("missing".to_string()),
                Some(row) => {
                    let gap = row.scost_after_repair / PAPER_IDEAL_SCOST - 1.0;
                    if gap.abs() > SCOST_TOLERANCE {
                        problems.push(format!(
                            "repaired scost {} is {:+.2}% off the paper ideal",
                            row.scost_after_repair,
                            gap * 100.0
                        ));
                    }
                    if bits(row) != bits(&reference[period]) {
                        problems.push(format!("differs from the first run_churn: {row:?}"));
                    }
                }
            }
            match &golden {
                Some(Ok((golden, rendered, digest))) => {
                    problems.extend(golden_mismatch(golden, period + 1, &rendered[period + 1]));
                    problems.extend(digest.clone());
                }
                Some(Err(e)) => problems.push(e.clone()),
                None => {}
            }
            checks.op(|| format!("{source} #{rep} period {period}"), problems);
        }
        if rows.len() != churn.periods {
            checks.op(
                || format!("{source} #{rep}"),
                vec![format!("{} periods, want {}", rows.len(), churn.periods)],
            );
        }
    }
}
